//! The page table the [`Vmm`](crate::Vmm) probes on every simulated
//! access: virtual page → backing frame.
//!
//! Pages below 2^32 — every page a workload generator or a recorded trace
//! produces — live in a two-level radix table: a root vector indexed by
//! `page >> LEAF_BITS`, grown to the highest leaf touched, and leaves of
//! `frame + 1` entries (0 = unmapped), allocated when their first page is
//! mapped and freed when their last page is unmapped. A lookup is two
//! dependent loads with no hashing. Pages at or above 2^32 go to a
//! `DetHashMap` instead, so any input stays correct. Entries are `u32`, so
//! the pool must have at most `u32::MAX` frames, which
//! [`Vmm::new`](crate::Vmm::new) checks.

use cameo_types::{DetHashMap, PageAddr};

use crate::frames::FrameId;

/// log2 of the pages per leaf: 4096 `u32` entries, 16 KiB per leaf.
const LEAF_BITS: u32 = 12;
const LEAF_PAGES: usize = 1 << LEAF_BITS;
const LEAF_MASK: u64 = LEAF_PAGES as u64 - 1;

/// Pages the radix levels can cover.
const RADIX_PAGES: u64 = 1 << 32;

#[derive(Clone, Debug)]
struct Leaf {
    /// `frame + 1` per page of the leaf, 0 when the page is unmapped.
    frames: [u32; LEAF_PAGES],
    /// Mapped pages in the leaf.
    live: u32,
}

/// Virtual page → frame map: a radix table for pages below 2^32 backed by
/// a hash map for the rest.
#[derive(Clone, Debug)]
pub(crate) struct PageTable {
    /// Leaves by `page >> LEAF_BITS`; `None` where no page is mapped.
    leaves: Vec<Option<Box<Leaf>>>,
    /// Mapped pages in the radix levels.
    radix_len: usize,
    /// Mappings of pages at or above 2^32, which the radix levels cannot
    /// hold. Point queries only: no
    /// simulated decision iterates it (the deep-audit walk only checks
    /// invariants).
    far: DetHashMap<PageAddr, FrameId>,
}

impl PageTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self {
            leaves: Vec::new(),
            radix_len: 0,
            far: DetHashMap::default(),
        }
    }

    /// Frame backing `page`, if it is mapped.
    #[inline]
    pub(crate) fn get(&self, page: PageAddr) -> Option<FrameId> {
        let raw = page.raw();
        if raw >= RADIX_PAGES {
            return self.far.get(&page).copied();
        }
        let entry = match self.leaves.get((raw >> LEAF_BITS) as usize) {
            Some(Some(leaf)) => leaf.frames[(raw & LEAF_MASK) as usize],
            _ => 0,
        };
        entry.checked_sub(1).map(|frame| FrameId(u64::from(frame)))
    }

    /// Maps `page` to `frame`, replacing any previous mapping.
    pub(crate) fn insert(&mut self, page: PageAddr, frame: FrameId) {
        let raw = page.raw();
        if raw >= RADIX_PAGES {
            self.far.insert(page, frame);
            return;
        }
        let at = (raw >> LEAF_BITS) as usize;
        if at >= self.leaves.len() {
            self.leaves.resize_with(at + 1, || None);
        }
        let leaf = self.leaves[at].get_or_insert_with(|| {
            Box::new(Leaf {
                frames: [0; LEAF_PAGES],
                live: 0,
            })
        });
        let entry = &mut leaf.frames[(raw & LEAF_MASK) as usize];
        if *entry == 0 {
            leaf.live += 1;
            self.radix_len += 1;
        }
        *entry = u32::try_from(frame.0 + 1).expect("the pool has at most u32::MAX frames");
    }

    /// Unmaps `page`, freeing its leaf if no page of the leaf is left.
    pub(crate) fn remove(&mut self, page: PageAddr) {
        let raw = page.raw();
        if raw >= RADIX_PAGES {
            self.far.remove(&page);
            return;
        }
        let at = (raw >> LEAF_BITS) as usize;
        let Some(Some(leaf)) = self.leaves.get_mut(at) else {
            return;
        };
        let entry = &mut leaf.frames[(raw & LEAF_MASK) as usize];
        if *entry == 0 {
            return;
        }
        *entry = 0;
        leaf.live -= 1;
        self.radix_len -= 1;
        if leaf.live == 0 {
            self.leaves[at] = None;
        }
    }

    /// Number of mapped pages.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.radix_len + self.far.len()
    }

    /// Every mapping: radix pages in ascending order, then the rest in
    /// hash order (for invariant audits and tests only).
    #[cfg(any(test, feature = "deep-audit"))]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PageAddr, FrameId)> + '_ {
        let radix = self
            .leaves
            .iter()
            .enumerate()
            .filter_map(|(at, leaf)| leaf.as_ref().map(|leaf| (at as u64, leaf)))
            .flat_map(|(at, leaf)| {
                leaf.frames
                    .iter()
                    .zip(0u64..)
                    .filter(|(&entry, _)| entry != 0)
                    .map(move |(&entry, offset)| {
                        (
                            PageAddr::new((at << LEAF_BITS) | offset),
                            FrameId(u64::from(entry) - 1),
                        )
                    })
            });
        radix.chain(self.far.iter().map(|(&page, &frame)| (page, frame)))
    }

    /// Leaves currently allocated.
    #[cfg(test)]
    fn leaf_count(&self) -> usize {
        self.leaves.iter().filter(|leaf| leaf.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::any;

    #[test]
    fn maps_and_unmaps_on_both_sides_of_the_radix_limit() {
        let mut table = PageTable::new();
        for raw in [0u64, 4095, 4096, RADIX_PAGES - 1, RADIX_PAGES, u64::MAX] {
            let page = PageAddr::new(raw);
            assert_eq!(table.get(page), None);
            table.insert(page, FrameId(7));
            assert_eq!(table.get(page), Some(FrameId(7)));
            table.insert(page, FrameId(0));
            assert_eq!(table.get(page), Some(FrameId(0)));
        }
        assert_eq!(table.len(), 6);
        for raw in [0u64, 4095, 4096, RADIX_PAGES - 1, RADIX_PAGES, u64::MAX] {
            table.remove(PageAddr::new(raw));
            assert_eq!(table.get(PageAddr::new(raw)), None);
        }
        assert_eq!(table.len(), 0);
        // Emptied leaves are freed.
        assert_eq!(table.leaf_count(), 0);
    }

    /// A page drawn from one of three populations: dense pages spanning a
    /// few leaves, pages scattered over the whole radix range, and pages
    /// at or above 2^32 that only the map can hold.
    fn page(kind: u8, n: u64) -> PageAddr {
        PageAddr::new(match kind % 3 {
            0 => n % 10_000,
            1 => (n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 512 * 8_388_593,
            _ => RADIX_PAGES + n % 64 + if n.is_multiple_of(2) { 0 } else { u64::MAX / 2 },
        })
    }

    proptest::proptest! {
        /// The table agrees with a `DetHashMap` model over random map,
        /// unmap, swap and move sequences: every lookup, the page count,
        /// the audit walk, and which leaves stay allocated.
        #[test]
        fn page_table_matches_hash_map_model(
            ops in proptest::collection::vec(
                (0u8..4, any::<u8>(), any::<u64>(), any::<u8>(), any::<u64>(), 0u64..4096),
                0..400,
            ),
        ) {
            let mut table = PageTable::new();
            let mut model: DetHashMap<PageAddr, FrameId> = DetHashMap::default();
            for (op, kind_a, a, kind_b, b, frame) in ops {
                let (pa, pb) = (page(kind_a, a), page(kind_b, b));
                match op {
                    0 => {
                        table.insert(pa, FrameId(frame));
                        model.insert(pa, FrameId(frame));
                    }
                    1 => {
                        table.remove(pa);
                        model.remove(&pa);
                    }
                    2 => {
                        // Swap: two mapped pages exchange frames.
                        if let (Some(fa), Some(fb)) = (model.get(&pa).copied(), model.get(&pb).copied()) {
                            table.insert(pa, fb);
                            table.insert(pb, fa);
                            model.insert(pa, fb);
                            model.insert(pb, fa);
                        }
                    }
                    _ => {
                        // Move: a mapped page changes frame.
                        if model.contains_key(&pa) {
                            table.insert(pa, FrameId(frame));
                            model.insert(pa, FrameId(frame));
                        }
                    }
                }
                proptest::prop_assert_eq!(table.get(pa), model.get(&pa).copied());
                proptest::prop_assert_eq!(table.get(pb), model.get(&pb).copied());
                proptest::prop_assert_eq!(table.len(), model.len());
            }
            let mut walked: Vec<(PageAddr, FrameId)> = table.iter().collect();
            walked.sort_unstable();
            let mut expected: Vec<(PageAddr, FrameId)> =
                model.iter().map(|(&p, &f)| (p, f)).collect();
            expected.sort_unstable();
            proptest::prop_assert_eq!(walked, expected);
            let mut leaves: Vec<u64> = model
                .keys()
                .filter(|p| p.raw() < RADIX_PAGES)
                .map(|p| p.raw() >> LEAF_BITS)
                .collect();
            leaves.sort_unstable();
            leaves.dedup();
            proptest::prop_assert_eq!(table.leaf_count(), leaves.len());
        }
    }
}
