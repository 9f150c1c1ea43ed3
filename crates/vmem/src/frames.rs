//! Physical frame pool with clock-plus-random-probe victim selection.
//!
//! Frame state is held in sparse two-level lazy tables: the paper-scale
//! configuration tracks ~4 M frames, and an eager `Vec<Frame>` plus an
//! eager free list cost ~100 MiB before the workload touches a page.
//! Here the per-frame table allocates fixed-size leaves on first *write*
//! (reads of untouched frames see `Frame::default()` without
//! materializing anything), and the free list stores only its deviations
//! from the virtual initial state, so untouched address space costs
//! nothing. Region and frame queries on the free list answer from an
//! ordered index over those deviations, built by the first such query.
//! Both structures reproduce the eager versions' observable behavior
//! exactly — same RNG draws, same pop order, same victim choices — which
//! the property tests in this module pin.

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};

use cameo_types::{DetHashMap, PageAddr, PhysPageAddr};
use rand::rngs::SmallRng;
use rand::Rng;

/// Index of a physical frame. Frames `0..stacked_frames` are in stacked
/// DRAM; the rest are off-chip.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FrameId(pub u64);

impl FrameId {
    /// The physical page address of this frame (identity mapping).
    #[inline]
    pub fn phys_page(self) -> PhysPageAddr {
        PhysPageAddr::new(self.0)
    }
}

/// Which device region a frame belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Region {
    /// Fast, stacked-DRAM frames (low physical addresses).
    Stacked,
    /// Commodity off-chip frames.
    OffChip,
    /// No preference: any frame.
    Any,
}

/// One frame's state in a word: `page + 1` of the resident page in the
/// low 62 bits (0 when the frame is free), the referenced bit at bit 63
/// and the dirty bit at bit 62. The zero word is a free frame, so a
/// zeroed leaf is a leaf of free frames.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Frame(u64);

impl Frame {
    const REFERENCED: u64 = 1 << 63;
    const DIRTY: u64 = 1 << 62;
    /// The `page + 1` field.
    const PAGE: u64 = Self::DIRTY - 1;

    /// A frame just granted to `page`: referenced and clean.
    ///
    /// # Panics
    ///
    /// Panics if `page + 1` does not fit 62 bits. Every page a `LineAddr`
    /// can name (below 2^58) fits.
    #[inline]
    fn holding(page: PageAddr) -> Self {
        let raw = page.raw();
        assert!(raw < Self::PAGE, "page {page} does not fit a frame record");
        Self((raw + 1) | Self::REFERENCED)
    }

    /// The page resident in the frame, `None` when it is free.
    #[inline]
    fn resident(self) -> Option<PageAddr> {
        let key = self.0 & Self::PAGE;
        (key != 0).then(|| PageAddr::new(key - 1))
    }

    #[inline]
    fn referenced(self) -> bool {
        self.0 & Self::REFERENCED != 0
    }

    #[inline]
    fn dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }
}

/// Frames per leaf of the lazy frame table: 4096 × 8 B = 32 KiB leaves,
/// so even a fully-touched paper-scale pool adds only ~1 K leaf pointers
/// of overhead while an untouched one allocates nothing.
const LEAF_FRAMES: usize = 4096;

/// Host bytes of one free-list override: a `u32` slot and a `u32` frame.
const OVERRIDE_BYTES: u64 = std::mem::size_of::<(u32, u32)>() as u64;

/// Sparse two-level table of per-frame state. Reads of frames whose leaf
/// was never materialized return `Frame::default()`; only writes that
/// change state allocate a leaf.
#[derive(Clone, Debug)]
struct FrameTable {
    leaves: Vec<Option<Box<[Frame]>>>,
    total: usize,
}

impl FrameTable {
    fn new(total: usize) -> Self {
        Self {
            leaves: vec![None; total.div_ceil(LEAF_FRAMES)],
            total,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.total
    }

    /// Current state of frame `idx`, by value (no allocation).
    #[inline]
    fn get(&self, idx: usize) -> Frame {
        debug_assert!(idx < self.total, "frame out of range");
        match &self.leaves[idx / LEAF_FRAMES] {
            Some(leaf) => leaf[idx % LEAF_FRAMES],
            None => Frame::default(),
        }
    }

    /// Mutable state of frame `idx`, materializing its leaf on first
    /// touch.
    #[inline]
    fn get_mut(&mut self, idx: usize) -> &mut Frame {
        debug_assert!(idx < self.total, "frame out of range");
        let leaf = self.leaves[idx / LEAF_FRAMES]
            .get_or_insert_with(|| vec![Frame::default(); LEAF_FRAMES].into_boxed_slice());
        &mut leaf[idx % LEAF_FRAMES]
    }

    /// Referenced bit of frame `idx` (no allocation).
    #[inline]
    fn referenced(&self, idx: usize) -> bool {
        self.get(idx).referenced()
    }

    /// Leaves currently materialized (host-memory gauge).
    fn resident_leaves(&self) -> usize {
        self.leaves.iter().filter(|l| l.is_some()).count()
    }
}

/// The free-frame list, stored as its deviation from the virtual initial
/// state `value(i) = total - 1 - i` (the eager `(0..total).rev()` list):
/// a logical length plus a sparse override map. `swap_remove`, `push` and
/// the first-in-region and slot-of-frame queries reproduce the eager
/// `Vec<u64>` and its scans exactly, so RNG-indexed draws and region
/// queries see identical values — while a pool whose tail was never
/// recycled stores nothing per untouched frame.
///
/// Every free frame appears in the list exactly once (a frame enters it
/// only by being released from residency, and leaves it when granted), so
/// "the slot holding frame `f`" is well defined.
#[derive(Clone, Debug)]
struct FreeList {
    /// Virtual initial length (the pool size).
    total: u64,
    /// Frames below this index are stacked. In the virtual state they sit
    /// at the list's tail, slots `total - stacked..total`.
    stacked: u64,
    /// Logical length of the list.
    len: usize,
    /// Slots whose value differs from the virtual formula. Invariant:
    /// keys are `< len` (shrinking removes the vacated slot's override).
    /// Slots and frames are below the pool size, which is at most
    /// `u32::MAX`, so both are stored in 32 bits.
    overrides: DetHashMap<u32, u32>,
    /// Ordered views of `overrides` for the region and frame queries,
    /// built by the first such query and kept in step by every override
    /// change after it. A pool that only ever takes random slots (the
    /// random placement of Baseline, Cache and CAMEO) never builds it.
    index: OnceCell<FreeIndex>,
}

/// Ordered views of a free list's overrides, answering "the first slot
/// in list order holding a frame of a region" and "the slot holding
/// frame `f`" in O(log n), with memory in proportion to the overrides.
#[derive(Clone, Debug, Default, PartialEq)]
struct FreeIndex {
    /// Maximal runs of consecutive overridden slots, `start -> end`
    /// (exclusive): the first slot from some point on that still holds
    /// its virtual value is one lookup away.
    runs: BTreeMap<usize, usize>,
    /// Overridden slots holding a stacked frame.
    stacked_slots: BTreeSet<usize>,
    /// Overridden slots holding an off-chip frame.
    off_chip_slots: BTreeSet<usize>,
    /// Slot of every frame held by an override.
    slot_of: DetHashMap<u64, usize>,
}

impl FreeIndex {
    /// Indexes the overrides; the map's iteration order cannot matter,
    /// as every view is ordered or keyed.
    fn build(overrides: &DetHashMap<u32, u32>, stacked: u64) -> Self {
        let mut index = Self::default();
        for (&slot, &frame) in overrides {
            index.mark(slot as usize);
            index.file(slot as usize, u64::from(frame), stacked);
        }
        index
    }

    fn region_slots(&mut self, frame: u64, stacked: u64) -> &mut BTreeSet<usize> {
        if frame < stacked {
            &mut self.stacked_slots
        } else {
            &mut self.off_chip_slots
        }
    }

    /// Records that override `slot` holds `frame`.
    fn file(&mut self, slot: usize, frame: u64, stacked: u64) {
        self.region_slots(frame, stacked).insert(slot);
        self.slot_of.insert(frame, slot);
    }

    /// Forgets that override `slot` holds `frame`.
    fn unfile(&mut self, slot: usize, frame: u64, stacked: u64) {
        self.region_slots(frame, stacked).remove(&slot);
        self.slot_of.remove(&frame);
    }

    /// Adds `slot` to the overridden runs, merging with its neighbours.
    fn mark(&mut self, slot: usize) {
        let mut start = slot;
        if let Some((&before, &end)) = self.runs.range(..slot).next_back() {
            if end == slot {
                start = before;
            }
        }
        let end = self.runs.remove(&(slot + 1)).unwrap_or(slot + 1);
        self.runs.insert(start, end);
    }

    /// Removes `slot` from the overridden runs, splitting its run.
    fn unmark(&mut self, slot: usize) {
        let Some((&start, &end)) = self.runs.range(..=slot).next_back() else {
            return;
        };
        debug_assert!(slot < end, "slot {slot} was not overridden");
        if start == slot {
            self.runs.remove(&start);
        } else {
            self.runs.insert(start, slot);
        }
        if slot + 1 < end {
            self.runs.insert(slot + 1, end);
        }
    }

    /// First slot at or after `from` without an override.
    fn first_plain(&self, from: usize) -> usize {
        match self.runs.range(..=from).next_back() {
            Some((_, &end)) if end > from => end,
            _ => from,
        }
    }
}

impl FreeList {
    fn new(total: u64, stacked: u64) -> Self {
        Self {
            total,
            stacked,
            len: usize::try_from(total).expect("pool fits memory"),
            overrides: DetHashMap::default(),
            index: OnceCell::new(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value at slot `i` — the frame index the eager list would hold.
    #[inline]
    fn value(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "free-list slot out of range");
        if self.overrides.is_empty() {
            return self.total - 1 - i as u64;
        }
        match self.overrides.get(&(i as u32)) {
            Some(&v) => u64::from(v),
            None => self.total - 1 - i as u64,
        }
    }

    /// Sets slot `i`, storing an override only when the value deviates
    /// from the virtual formula.
    fn set(&mut self, i: usize, v: u64) {
        if v == self.total - 1 - i as u64 {
            self.clear(i);
            return;
        }
        // `FrameAllocator::new` bounds the pool, so slot and frame fit.
        let old = self.overrides.insert(i as u32, v as u32);
        if let Some(index) = self.index.get_mut() {
            match old {
                Some(old) => index.unfile(i, u64::from(old), self.stacked),
                None => index.mark(i),
            }
            index.file(i, v, self.stacked);
        }
    }

    /// Drops slot `i`'s override, if any.
    fn clear(&mut self, i: usize) {
        let Some(old) = self.overrides.remove(&(i as u32)) else {
            return;
        };
        if let Some(index) = self.index.get_mut() {
            index.unfile(i, u64::from(old), self.stacked);
            index.unmark(i);
        }
    }

    /// `Vec::swap_remove` semantics: returns slot `i`'s value after
    /// moving the last slot's value into it.
    fn swap_remove(&mut self, i: usize) -> u64 {
        let v = self.value(i);
        let last = self.len - 1;
        let last_val = self.value(last);
        // Vacate the last slot first, so the moved value is never held by
        // two overrides at once.
        self.clear(last);
        self.len = last;
        if i != last {
            self.set(i, last_val);
        }
        v
    }

    /// Appends a value (a released frame index).
    fn push(&mut self, v: u64) {
        let at = self.len;
        self.len += 1;
        self.set(at, v);
    }

    fn index(&self) -> &FreeIndex {
        self.index
            .get_or_init(|| FreeIndex::build(&self.overrides, self.stacked))
    }

    /// First slot, in list order, holding a frame of `region` (slot 0 for
    /// `Any`). For the stacked or off-chip region it is the earlier of
    /// the region's first override and the first slot of its virtual
    /// range that no override hides.
    fn first_in(&self, region: Region) -> Option<usize> {
        if region == Region::Any {
            return (self.len > 0).then_some(0);
        }
        let index = self.index();
        // Virtual slots at or past this one hold stacked frames.
        let stacked_from = (self.total - self.stacked) as usize;
        let (from, end, overridden) = if region == Region::Stacked {
            (stacked_from, self.len, &index.stacked_slots)
        } else {
            (0, stacked_from.min(self.len), &index.off_chip_slots)
        };
        let plain = Some(index.first_plain(from)).filter(|&slot| slot < end);
        match (plain, overridden.first().copied()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Slot holding `frame`, if it is free: its virtual slot when no
    /// override hides that slot, otherwise the override holding it.
    fn slot_of(&self, frame: u64) -> Option<usize> {
        let virtual_slot = (self.total - 1 - frame) as usize;
        if virtual_slot < self.len && !self.overrides.contains_key(&(virtual_slot as u32)) {
            return Some(virtual_slot);
        }
        self.index().slot_of.get(&frame).copied()
    }
}

/// The frame pool: tracks residency, referenced and dirty bits, and selects
/// eviction victims the way the paper describes — probe five random frames
/// for a free one, then fall back to a clock sweep over referenced bits.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    frames: FrameTable,
    stacked_frames: u64,
    free: FreeList,
    /// Free-list entries below `stacked_frames`: a region with no free
    /// frame answers `find_free`/`take_free` without scanning the list
    /// (TLM-Dynamic asks for a stacked frame on every off-chip touch, long
    /// after the stacked region filled).
    free_stacked: usize,
    clock_hand: usize,
}

/// Outcome of taking a frame: the frame plus the page that had to be evicted
/// from it (with its dirtiness), if any.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Took {
    /// The granted frame.
    pub frame: FrameId,
    /// Page displaced from the frame, and whether it was dirty.
    pub evicted: Option<(PageAddr, bool)>,
}

impl FrameAllocator {
    /// Creates a pool of `stacked + off_chip` frames, all free.
    ///
    /// # Panics
    ///
    /// Panics if the pool would be empty, or hold more than `u32::MAX`
    /// frames (the free list stores slots and frames in 32 bits).
    pub fn new(stacked_frames: u64, off_chip_frames: u64) -> Self {
        let total = stacked_frames.saturating_add(off_chip_frames);
        assert!(total > 0, "frame pool must be non-empty");
        assert!(
            total <= u64::from(u32::MAX),
            "frame pool exceeds u32::MAX frames"
        );
        Self {
            frames: FrameTable::new(usize::try_from(total).expect("pool fits memory")),
            stacked_frames,
            // Pop order: lowest index last so stacked frames are handed out
            // first when no region is requested — matching an OS that
            // prefers fast memory while it lasts. (The lazy list *is* this
            // ordering: its virtual initial state.)
            free: FreeList::new(total, stacked_frames),
            free_stacked: usize::try_from(stacked_frames).expect("pool fits memory"),
            clock_hand: 0,
        }
    }

    /// Total frames in the pool.
    #[inline]
    pub fn total_frames(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Frames in the stacked region.
    #[inline]
    pub fn stacked_frames(&self) -> u64 {
        self.stacked_frames
    }

    /// Number of currently free frames.
    #[inline]
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Host bytes resident for per-frame state: materialized leaves plus
    /// free-list overrides — the gauge DESIGN.md §16 tracks against the
    /// eager layout's `total_frames × 8 B`.
    pub fn host_resident_bytes(&self) -> u64 {
        let leaf_bytes = (self.frames.resident_leaves() * LEAF_FRAMES) as u64
            * std::mem::size_of::<Frame>() as u64;
        leaf_bytes + self.free.overrides.len() as u64 * OVERRIDE_BYTES
    }

    /// Region of a given frame.
    #[inline]
    pub fn region_of(&self, frame: FrameId) -> Region {
        if frame.0 < self.stacked_frames {
            Region::Stacked
        } else {
            Region::OffChip
        }
    }

    /// Page currently resident in `frame`.
    #[inline]
    pub fn resident(&self, frame: FrameId) -> Option<PageAddr> {
        self.frames.get(frame.0 as usize).resident()
    }

    /// Marks a frame referenced (on access) and optionally dirty.
    pub fn touch(&mut self, frame: FrameId, write: bool) {
        let f = self.frames.get_mut(frame.0 as usize);
        f.0 |= Frame::REFERENCED | if write { Frame::DIRTY } else { 0 };
    }

    /// Whether the page in `frame` has been written since it was loaded.
    #[inline]
    pub fn is_dirty(&self, frame: FrameId) -> bool {
        self.frames.get(frame.0 as usize).dirty()
    }

    /// Takes a frame for `page`, preferring `region`, evicting a victim if
    /// the pool is full.
    ///
    /// A preferred region with no free frame falls back to the first free
    /// frame of the other region (in free-list order): an OS does not evict
    /// while memory is free. Victim selection follows the paper: five
    /// random probes looking for an unreferenced frame, then a clock sweep
    /// that clears referenced bits until one is found.
    pub fn take(&mut self, page: PageAddr, region: Region, rng: &mut SmallRng) -> Took {
        let frame = match self.take_free(region, rng) {
            Some(frame) => frame,
            // Every free frame is in the other region, so slot 0 is the
            // first of them in list order.
            None if !self.free.is_empty() => self.remove_free(0),
            None => self.select_victim(rng),
        };
        let slot = self.frames.get_mut(frame.0 as usize);
        let evicted = slot.resident().map(|p| (p, slot.dirty()));
        *slot = Frame::holding(page);
        Took { frame, evicted }
    }

    /// Releases a frame back to the free pool (used when a page is migrated
    /// away rather than evicted).
    ///
    /// # Panics
    ///
    /// Panics if the frame is already free.
    pub fn release(&mut self, frame: FrameId) {
        let slot = self.frames.get_mut(frame.0 as usize);
        assert!(slot.resident().is_some(), "double free of frame {frame:?}");
        *slot = Frame::default();
        self.free.push(frame.0);
        if frame.0 < self.stacked_frames {
            self.free_stacked += 1;
        }
    }

    /// Atomically exchanges the pages resident in two frames, preserving
    /// their referenced/dirty bits. Used by TLM page migration.
    ///
    /// # Panics
    ///
    /// Panics if either frame is free.
    pub fn swap_frames(&mut self, a: FrameId, b: FrameId) {
        let fa = self.frames.get(a.0 as usize);
        let fb = self.frames.get(b.0 as usize);
        assert!(
            fa.resident().is_some() && fb.resident().is_some(),
            "swap requires both frames resident"
        );
        *self.frames.get_mut(a.0 as usize) = fb;
        *self.frames.get_mut(b.0 as usize) = fa;
    }

    /// Installs `page` into a specific free frame (used by oracle
    /// placement). Returns `false` if the frame is occupied.
    pub fn place_into(&mut self, page: PageAddr, frame: FrameId) -> bool {
        let idx = frame.0 as usize;
        if self.frames.get(idx).resident().is_some() {
            return false;
        }
        // Remove from the free list.
        if let Some(pos) = self.free.slot_of(frame.0) {
            self.remove_free(pos);
        }
        *self.frames.get_mut(idx) = Frame::holding(page);
        true
    }

    /// Peeks at a free frame in `region` without taking it (used by
    /// migration policies that fill holes before swapping).
    pub fn find_free(&self, region: Region) -> Option<FrameId> {
        if self.free_in(region) == 0 {
            return None;
        }
        let slot = self.free.first_in(region)?;
        Some(FrameId(self.free.value(slot)))
    }

    /// Free frames in `region`.
    #[inline]
    fn free_in(&self, region: Region) -> usize {
        match region {
            Region::Any => self.free.len(),
            Region::Stacked => self.free_stacked,
            Region::OffChip => self.free.len() - self.free_stacked,
        }
    }

    fn take_free(&mut self, region: Region, rng: &mut SmallRng) -> Option<FrameId> {
        if self.free_in(region) == 0 {
            return None;
        }
        let pos = match region {
            // Random placement across the whole pool (TLM-Static's
            // locality-oblivious mapping).
            Region::Any => rng.gen_range(0..self.free.len()),
            Region::Stacked | Region::OffChip => self.free.first_in(region)?,
        };
        Some(self.remove_free(pos))
    }

    /// Removes free-list slot `pos` (`Vec::swap_remove` order), keeping the
    /// free-stacked count.
    fn remove_free(&mut self, pos: usize) -> FrameId {
        let frame = self.free.swap_remove(pos);
        if frame < self.stacked_frames {
            self.free_stacked -= 1;
        }
        FrameId(frame)
    }

    fn select_victim(&mut self, rng: &mut SmallRng) -> FrameId {
        // Five random probes for an unreferenced frame.
        for _ in 0..5 {
            let idx = rng.gen_range(0..self.frames.len());
            if !self.frames.referenced(idx) {
                return FrameId(idx as u64);
            }
        }
        // Clock sweep: clear referenced bits until one stays clear. The
        // clear only writes frames whose bit is set, so the sweep never
        // materializes an untouched leaf.
        loop {
            let idx = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % self.frames.len();
            if self.frames.referenced(idx) {
                self.frames.get_mut(idx).0 &= !Frame::REFERENCED;
            } else {
                return FrameId(idx as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn fills_free_frames_first() {
        let mut fa = FrameAllocator::new(2, 2);
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for p in 0..4u64 {
            let took = fa.take(PageAddr::new(p), Region::Any, &mut r);
            assert!(took.evicted.is_none());
            assert!(seen.insert(took.frame));
        }
        assert_eq!(fa.free_frames(), 0);
    }

    #[test]
    fn eviction_when_full() {
        let mut fa = FrameAllocator::new(1, 1);
        let mut r = rng();
        fa.take(PageAddr::new(0), Region::Any, &mut r);
        fa.take(PageAddr::new(1), Region::Any, &mut r);
        let took = fa.take(PageAddr::new(2), Region::Any, &mut r);
        let (victim, dirty) = took.evicted.expect("pool was full");
        assert!(victim == PageAddr::new(0) || victim == PageAddr::new(1));
        assert!(!dirty);
    }

    #[test]
    fn dirty_bit_travels_with_eviction() {
        let mut fa = FrameAllocator::new(1, 0);
        let mut r = rng();
        let took = fa.take(PageAddr::new(0), Region::Any, &mut r);
        fa.touch(took.frame, true);
        // Clock must evict page 0 (only frame); referenced gets cleared on
        // the first sweep, then it is chosen.
        let next = fa.take(PageAddr::new(1), Region::Any, &mut r);
        assert_eq!(next.evicted, Some((PageAddr::new(0), true)));
    }

    #[test]
    fn region_preference_honored() {
        let mut fa = FrameAllocator::new(2, 2);
        let mut r = rng();
        let s = fa.take(PageAddr::new(0), Region::Stacked, &mut r);
        assert_eq!(fa.region_of(s.frame), Region::Stacked);
        let o = fa.take(PageAddr::new(1), Region::OffChip, &mut r);
        assert_eq!(fa.region_of(o.frame), Region::OffChip);
    }

    #[test]
    fn clock_prefers_unreferenced() {
        let mut fa = FrameAllocator::new(0, 3);
        let mut r = rng();
        let frames: Vec<_> = (0..3u64)
            .map(|p| fa.take(PageAddr::new(p), Region::Any, &mut r).frame)
            .collect();
        // Touch all, then clear one by a full clock pass is implicit; instead
        // re-touch two and leave one cold after a sweep.
        for &f in &frames {
            fa.touch(f, false);
        }
        // All referenced: victim comes from clock after clearing; take twice
        // and ensure both evict something valid.
        for p in 10..12u64 {
            let took = fa.take(PageAddr::new(p), Region::Any, &mut r);
            assert!(took.evicted.is_some());
        }
    }

    #[test]
    fn swap_frames_exchanges_pages() {
        let mut fa = FrameAllocator::new(1, 1);
        let mut r = rng();
        let a = fa.take(PageAddr::new(10), Region::Stacked, &mut r).frame;
        let b = fa.take(PageAddr::new(20), Region::OffChip, &mut r).frame;
        fa.touch(a, true);
        fa.swap_frames(a, b);
        assert_eq!(fa.resident(a), Some(PageAddr::new(20)));
        assert_eq!(fa.resident(b), Some(PageAddr::new(10)));
        // Dirty bit moved with the page.
        assert!(fa.is_dirty(b));
        assert!(!fa.is_dirty(a));
    }

    #[test]
    fn release_and_reuse() {
        let mut fa = FrameAllocator::new(1, 0);
        let mut r = rng();
        let t = fa.take(PageAddr::new(0), Region::Any, &mut r);
        fa.release(t.frame);
        assert_eq!(fa.free_frames(), 1);
        let t2 = fa.take(PageAddr::new(1), Region::Any, &mut r);
        assert_eq!(t2.frame, t.frame);
        assert!(t2.evicted.is_none());
    }

    #[test]
    fn place_into_specific_frame() {
        let mut fa = FrameAllocator::new(2, 0);
        assert!(fa.place_into(PageAddr::new(5), FrameId(1)));
        assert!(!fa.place_into(PageAddr::new(6), FrameId(1)));
        assert_eq!(fa.resident(FrameId(1)), Some(PageAddr::new(5)));
        assert_eq!(fa.free_frames(), 1);
    }

    #[test]
    fn find_free_respects_regions() {
        let mut fa = FrameAllocator::new(1, 1);
        let mut r = rng();
        assert!(fa.find_free(Region::Stacked).is_some());
        assert!(fa.find_free(Region::OffChip).is_some());
        assert!(fa.find_free(Region::Any).is_some());
        // Fill the stacked frame: only off-chip remains.
        let s = fa.take(PageAddr::new(0), Region::Stacked, &mut r);
        assert_eq!(fa.region_of(s.frame), Region::Stacked);
        assert!(fa.find_free(Region::Stacked).is_none());
        let free = fa.find_free(Region::OffChip).expect("off-chip frame free");
        assert_eq!(fa.region_of(free), Region::OffChip);
        // Fill it too: nothing free anywhere.
        fa.take(PageAddr::new(1), Region::OffChip, &mut r);
        assert!(fa.find_free(Region::Any).is_none());
    }

    #[test]
    fn full_preferred_region_falls_back_instead_of_evicting() {
        let mut fa = FrameAllocator::new(1, 3);
        let mut r = rng();
        let first = fa.take(PageAddr::new(0), Region::Stacked, &mut r);
        assert_eq!(first.frame, FrameId(0));
        // No stacked frame is free: the first free off-chip frame in list
        // order (3, the list's head) is granted, and it leaves the list.
        let second = fa.take(PageAddr::new(1), Region::Stacked, &mut r);
        assert_eq!(second.frame, FrameId(3));
        assert_eq!(second.evicted, None);
        assert_eq!(fa.free_frames(), 2);
        // And symmetrically once the off-chip region is full.
        let mut fa = FrameAllocator::new(2, 1);
        fa.take(PageAddr::new(0), Region::OffChip, &mut r);
        let spill = fa.take(PageAddr::new(1), Region::OffChip, &mut r);
        assert_eq!(fa.region_of(spill.frame), Region::Stacked);
        assert_eq!(spill.evicted, None);
        assert_eq!(fa.free_frames(), 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pool_rejected() {
        FrameAllocator::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_release_panics() {
        let mut fa = FrameAllocator::new(1, 0);
        let mut r = rng();
        let t = fa.take(PageAddr::new(0), Region::Any, &mut r);
        fa.release(t.frame);
        fa.release(t.frame);
    }

    #[test]
    fn untouched_pool_materializes_nothing() {
        let fa = FrameAllocator::new(1 << 16, 3 << 16);
        assert_eq!(fa.host_resident_bytes(), 0);
        // Reads of untouched frames stay free.
        assert_eq!(fa.resident(FrameId(12345)), None);
        assert!(!fa.is_dirty(FrameId(200_000)));
        assert!(fa.find_free(Region::Stacked).is_some());
        assert_eq!(fa.host_resident_bytes(), 0);
    }

    #[test]
    fn resident_bytes_track_touched_leaves_only() {
        let mut fa = FrameAllocator::new(1 << 16, 3 << 16);
        let mut r = rng();
        // The first stacked slot in list order holds the highest stacked
        // frame, 65535: its leaf materializes, and the list's last value
        // (frame 0) moves into the vacated slot as one override.
        let took = fa.take(PageAddr::new(0), Region::Stacked, &mut r);
        assert_eq!(took.frame, FrameId((1 << 16) - 1));
        assert_eq!(fa.host_resident_bytes(), 4096 * 8 + 8);
        // A second frame in the same leaf costs nothing more.
        fa.place_into(PageAddr::new(1), FrameId((1 << 16) - 2));
        assert_eq!(fa.host_resident_bytes(), 4096 * 8 + 2 * 8);
    }

    /// A frame record is one word.
    #[test]
    fn frame_record_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Frame>(), 8);
        assert_eq!(OVERRIDE_BYTES, 8);
    }

    /// The word round-trips page 0 and the largest page a `LineAddr` can
    /// name with every referenced/dirty combination, and the free word is
    /// zero.
    #[test]
    fn frame_word_round_trips_every_page_and_bit() {
        assert_eq!(Frame::default().resident(), None);
        assert!(!Frame::default().referenced() && !Frame::default().dirty());
        let largest = cameo_types::LineAddr::new(u64::MAX).page();
        for page in [PageAddr::new(0), PageAddr::new(1), largest] {
            for (referenced, dirty) in [(false, false), (false, true), (true, false), (true, true)]
            {
                let mut f = Frame::holding(page);
                if !referenced {
                    f.0 &= !Frame::REFERENCED;
                }
                if dirty {
                    f.0 |= Frame::DIRTY;
                }
                assert_eq!(f.resident(), Some(page), "{page}");
                assert_eq!((f.referenced(), f.dirty()), (referenced, dirty), "{page}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a frame record")]
    fn page_past_the_frame_word_rejected() {
        Frame::holding(PageAddr::new(Frame::PAGE));
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX frames")]
    fn pool_past_u32_frames_rejected() {
        FrameAllocator::new(1, u64::from(u32::MAX));
    }

    /// A frame's state as separate fields: the reference model of the
    /// packed [`Frame`] word.
    #[derive(Clone, Copy, PartialEq, Debug, Default)]
    struct FieldFrame {
        resident: Option<PageAddr>,
        referenced: bool,
        dirty: bool,
    }

    impl From<Frame> for FieldFrame {
        fn from(f: Frame) -> Self {
            Self {
                resident: f.resident(),
                referenced: f.referenced(),
                dirty: f.dirty(),
            }
        }
    }

    /// The eager structures this PR replaced, kept verbatim as the
    /// reference model for the lazy pool.
    struct EagerPool {
        frames: Vec<FieldFrame>,
        stacked_frames: u64,
        free: Vec<u64>,
        clock_hand: usize,
    }

    impl EagerPool {
        fn new(stacked: u64, off_chip: u64) -> Self {
            let total = stacked + off_chip;
            Self {
                frames: vec![FieldFrame::default(); total as usize],
                stacked_frames: stacked,
                free: (0..total).rev().collect(),
                clock_hand: 0,
            }
        }

        fn take(&mut self, page: PageAddr, region: Region, rng: &mut SmallRng) -> Took {
            let other = match region {
                Region::Stacked => Region::OffChip,
                Region::OffChip => Region::Stacked,
                Region::Any => Region::Any,
            };
            let frame = self
                .take_free(region, rng)
                .or_else(|| self.take_free(other, rng))
                .unwrap_or_else(|| self.select_victim(rng));
            let slot = &mut self.frames[frame.0 as usize];
            let evicted = slot.resident.map(|p| (p, slot.dirty));
            *slot = FieldFrame {
                resident: Some(page),
                referenced: true,
                dirty: false,
            };
            Took { frame, evicted }
        }

        fn take_free(&mut self, region: Region, rng: &mut SmallRng) -> Option<FrameId> {
            if self.free.is_empty() {
                return None;
            }
            match region {
                Region::Any => {
                    let idx = rng.gen_range(0..self.free.len());
                    Some(FrameId(self.free.swap_remove(idx)))
                }
                Region::Stacked => {
                    let pos = self.free.iter().position(|&f| f < self.stacked_frames)?;
                    Some(FrameId(self.free.swap_remove(pos)))
                }
                Region::OffChip => {
                    let pos = self.free.iter().position(|&f| f >= self.stacked_frames)?;
                    Some(FrameId(self.free.swap_remove(pos)))
                }
            }
        }

        fn find_free(&self, region: Region) -> Option<FrameId> {
            self.free
                .iter()
                .copied()
                .find(|&f| match region {
                    Region::Any => true,
                    Region::Stacked => f < self.stacked_frames,
                    Region::OffChip => f >= self.stacked_frames,
                })
                .map(FrameId)
        }

        fn select_victim(&mut self, rng: &mut SmallRng) -> FrameId {
            for _ in 0..5 {
                let idx = rng.gen_range(0..self.frames.len());
                if !self.frames[idx].referenced {
                    return FrameId(idx as u64);
                }
            }
            loop {
                let idx = self.clock_hand;
                self.clock_hand = (self.clock_hand + 1) % self.frames.len();
                if self.frames[idx].referenced {
                    self.frames[idx].referenced = false;
                } else {
                    return FrameId(idx as u64);
                }
            }
        }

        fn release(&mut self, frame: FrameId) {
            self.frames[frame.0 as usize] = FieldFrame::default();
            self.free.push(frame.0);
        }

        fn place_into(&mut self, page: PageAddr, frame: FrameId) -> bool {
            let idx = frame.0 as usize;
            if self.frames[idx].resident.is_some() {
                return false;
            }
            if let Some(pos) = self.free.iter().position(|&f| f == frame.0) {
                self.free.swap_remove(pos);
            }
            self.frames[idx] = FieldFrame {
                resident: Some(page),
                referenced: true,
                dirty: false,
            };
            true
        }
    }

    proptest::proptest! {
        /// The lazy pool is behavior-identical to the eager one over
        /// arbitrary operation sequences driven by the *same* RNG stream:
        /// identical frames granted, victims evicted, free counts, dirty
        /// bits and per-frame residency — the bit-identical-goldens
        /// requirement in miniature. Pools of up to a few hundred frames
        /// give the free-list index long override runs to merge and
        /// split. The pool's own index is built by the first region query
        /// and kept in step after it; every 16 steps a clone whose index
        /// is first built then, over the overrides that already exist,
        /// must answer the same region and frame queries.
        #[test]
        fn lazy_pool_matches_eager_pool(
            seed in 0u64..1000,
            stacked in 1u64..160,
            off_chip in 1u64..480,
            ops in proptest::collection::vec(
                (0u8..6, 0u64..1024, proptest::prelude::any::<bool>()),
                0..600,
            ),
        ) {
            let mut lazy = FrameAllocator::new(stacked, off_chip);
            let mut eager = EagerPool::new(stacked, off_chip);
            let mut lazy_rng = SmallRng::seed_from_u64(seed);
            let mut eager_rng = SmallRng::seed_from_u64(seed);
            let total = stacked + off_chip;
            for (step, (op, n, flag)) in ops.into_iter().enumerate() {
                match op {
                    0..=2 => {
                        // take dominates: exercise free-pop, region scans
                        // and victim selection.
                        let region = match op {
                            0 => Region::Any,
                            1 => Region::Stacked,
                            _ => Region::OffChip,
                        };
                        let a = lazy.take(PageAddr::new(n), region, &mut lazy_rng);
                        let b = eager.take(PageAddr::new(n), region, &mut eager_rng);
                        proptest::prop_assert_eq!(a, b);
                    }
                    3 => {
                        let f = FrameId(n % total);
                        if lazy.resident(f).is_some() {
                            lazy.touch(f, flag);
                            let e = &mut eager.frames[f.0 as usize];
                            e.referenced = true;
                            e.dirty |= flag;
                        }
                    }
                    4 => {
                        let f = FrameId(n % total);
                        if lazy.resident(f).is_some() {
                            lazy.release(f);
                            eager.release(f);
                        }
                    }
                    _ => {
                        let f = FrameId(n % total);
                        proptest::prop_assert_eq!(
                            lazy.place_into(PageAddr::new(n + 1000), f),
                            eager.place_into(PageAddr::new(n + 1000), f)
                        );
                    }
                }
                proptest::prop_assert_eq!(lazy.free_frames(), eager.free.len());
                for region in [Region::Any, Region::Stacked, Region::OffChip] {
                    proptest::prop_assert_eq!(lazy.find_free(region), eager.find_free(region));
                }
                if step % 16 == 0 {
                    // The index kept in step equals one built afresh.
                    if let Some(index) = lazy.free.index.get() {
                        let fresh = FreeIndex::build(&lazy.free.overrides, stacked);
                        proptest::prop_assert_eq!(index, &fresh);
                    }
                    // An index first built now answers as the scans do.
                    let mut late = lazy.free.clone();
                    late.index = OnceCell::new();
                    let mut eager_slot = vec![None; total as usize];
                    for (pos, &f) in eager.free.iter().enumerate() {
                        eager_slot[f as usize] = Some(pos);
                    }
                    for f in 0..total {
                        proptest::prop_assert_eq!(late.slot_of(f), eager_slot[f as usize], "slot of frame {}", f);
                    }
                    for region in [Region::Stacked, Region::OffChip] {
                        let want = eager.free.iter().position(|&f| (f < stacked) == (region == Region::Stacked));
                        proptest::prop_assert_eq!(late.first_in(region), want);
                    }
                }
                // A granted frame always leaves the free list.
                for i in 0..lazy.free.len() {
                    let f = FrameId(lazy.free.value(i));
                    proptest::prop_assert_eq!(lazy.resident(f), None, "frame {:?} resident and free", f);
                }
            }
            for f in 0..total {
                let got = FieldFrame::from(lazy.frames.get(f as usize));
                let want = eager.frames[f as usize];
                proptest::prop_assert_eq!(got, want, "frame {} diverged", f);
                proptest::prop_assert_eq!(lazy.is_dirty(FrameId(f)), want.dirty);
            }
            // The free lists hold the same values in the same order.
            let lazy_free: Vec<u64> = (0..lazy.free.len()).map(|i| lazy.free.value(i)).collect();
            proptest::prop_assert_eq!(lazy_free, eager.free);
        }
    }
}
