//! Property-based tests for the virtual-memory substrate.

use cameo_types::{ByteSize, PageAddr};
use cameo_vmem::tlm::DynamicMigrator;
use cameo_vmem::{Placement, Region, Vmm, VmmConfig};
use proptest::prelude::*;

fn vmm(stacked: u64, off: u64, seed: u64) -> Vmm {
    Vmm::new(VmmConfig {
        stacked: ByteSize::from_pages(stacked),
        off_chip: ByteSize::from_pages(off),
        placement: Placement::Random,
        seed,
    })
}

proptest! {
    /// Residency never exceeds physical capacity, and a translated page is
    /// always resident immediately afterwards.
    #[test]
    fn residency_bounded(
        (stacked, off) in (0u64..4, 1u64..8),
        pages in prop::collection::vec((0u64..64, any::<bool>()), 1..300),
        seed in 0u64..1000,
    ) {
        let mut v = vmm(stacked, off, seed);
        let capacity = (stacked + off) as usize;
        for &(p, w) in &pages {
            let out = v.translate(PageAddr::new(p), w);
            prop_assert!(v.resident_pages() <= capacity);
            prop_assert_eq!(v.frame_of(PageAddr::new(p)), Some(out.frame));
        }
    }

    /// Translation is stable: absent an intervening eviction of that page,
    /// repeated translations return the same frame, and faults only happen
    /// on non-resident pages.
    #[test]
    fn translation_stable(
        pages in prop::collection::vec(0u64..16, 1..200),
        seed in 0u64..1000,
    ) {
        // Memory big enough that nothing is ever evicted.
        let mut v = vmm(8, 8, seed);
        let mut first: cameo_types::DetHashMap<u64, _> = Default::default();
        for &p in &pages {
            let out = v.translate(PageAddr::new(p), false);
            match first.entry(p) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    prop_assert!(out.fault.is_some());
                    e.insert(out.frame);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    prop_assert!(out.fault.is_none());
                    prop_assert_eq!(*e.get(), out.frame);
                }
            }
        }
        prop_assert_eq!(v.stats().faults, first.len() as u64);
    }

    /// Under TLM-Dynamic, the touched page always ends in stacked memory,
    /// and the page-table/frame-pool bijection is preserved.
    #[test]
    fn dynamic_migration_invariants(
        pages in prop::collection::vec(0u64..32, 1..200),
        seed in 0u64..1000,
    ) {
        let mut v = vmm(4, 12, seed);
        let mut d = DynamicMigrator::new();
        for &p in &pages {
            let page = PageAddr::new(p);
            let out = v.translate(page, false);
            d.on_access(&mut v, page, out.frame);
            let f = v.frame_of(page).expect("touched page resident");
            prop_assert_eq!(v.frames().region_of(f), Region::Stacked);
            // Bijection: every resident page's frame maps back to it.
            for q in 0..32u64 {
                if let Some(fq) = v.frame_of(PageAddr::new(q)) {
                    prop_assert_eq!(v.frames().resident(fq), Some(PageAddr::new(q)));
                }
            }
        }
    }

    /// Storage byte counters are exact functions of fault/writeback counts.
    #[test]
    fn storage_accounting(
        pages in prop::collection::vec((0u64..64, any::<bool>()), 1..300),
        seed in 0u64..1000,
    ) {
        let mut v = vmm(1, 3, seed);
        for &(p, w) in &pages {
            v.translate(PageAddr::new(p), w);
        }
        let s = v.stats();
        prop_assert_eq!(s.bytes_from_storage, s.faults * 4096);
        prop_assert_eq!(s.bytes_to_storage, s.dirty_writebacks * 4096);
        prop_assert!(s.dirty_writebacks <= s.faults);
    }
}

/// With `deep-audit`, both migrators re-check page-table ↔ frame-pool
/// consistency after every move; this suite also audits explicitly at the
/// end of arbitrary migration traffic.
#[cfg(feature = "deep-audit")]
mod deep_audit {
    use super::*;
    use cameo_vmem::tlm::FreqMigrator;

    proptest! {
        /// TLM-Dynamic under arbitrary traffic keeps the page table
        /// consistent with the frame allocator.
        #[test]
        fn dynamic_migrator_audits_clean(
            pages in prop::collection::vec(0u64..32, 1..200),
            seed in 0u64..1000,
        ) {
            let mut v = vmm(4, 12, seed);
            let mut d = DynamicMigrator::new();
            for &p in &pages {
                let page = PageAddr::new(p);
                let out = v.translate(page, false);
                d.on_access(&mut v, page, out.frame);
            }
            prop_assert!(v.audit_page_table().is_ok());
        }

        /// TLM-Freq epoch rebalances keep the page table consistent.
        #[test]
        fn freq_migrator_audits_clean(
            pages in prop::collection::vec(0u64..48, 1..300),
            epoch in 8u64..64,
            seed in 0u64..1000,
        ) {
            let mut v = vmm(4, 60, seed);
            let mut m = FreqMigrator::new(epoch);
            for &p in &pages {
                let page = PageAddr::new(p);
                v.translate(page, false);
                m.on_access(&mut v, page);
            }
            m.rebalance(&mut v);
            prop_assert!(v.audit_page_table().is_ok());
        }
    }
}
