//! Property-based tests for the cache models.

use cameo_cachesim::alloy::AlloyDirectory;
use cameo_cachesim::{CacheConfig, Replacement, SetAssocCache};
use cameo_types::{ByteSize, Cycle, LineAddr};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = Replacement> {
    prop_oneof![
        Just(Replacement::Lru),
        (0u64..100).prop_map(|seed| Replacement::Random { seed }),
        Just(Replacement::Srrip),
    ]
}

fn small_cache() -> impl Strategy<Value = SetAssocCache> {
    (1u32..=4, 1u64..=8, arb_policy()).prop_map(|(ways, sets, policy)| {
        SetAssocCache::with_policy(
            CacheConfig {
                capacity: ByteSize::from_lines(u64::from(ways) * sets),
                ways,
                latency: Cycle::new(1),
            },
            policy,
        )
    })
}

proptest! {
    /// An access immediately followed by the same access always hits.
    #[test]
    fn immediate_reuse_hits(
        mut cache in small_cache(),
        lines in prop::collection::vec(0u64..256, 1..100),
    ) {
        for &l in &lines {
            cache.access(LineAddr::new(l), false);
            prop_assert!(cache.access(LineAddr::new(l), false).hit);
        }
    }

    /// Occupancy never exceeds capacity, and hits + misses == accesses.
    #[test]
    fn occupancy_bounded(
        mut cache in small_cache(),
        ops in prop::collection::vec((0u64..256, any::<bool>()), 1..200),
    ) {
        let capacity = cache.config().capacity.lines() as usize;
        for &(l, w) in &ops {
            cache.access(LineAddr::new(l), w);
            prop_assert!(cache.occupancy() <= capacity);
        }
        // Each op above did one access; the reuse probe in the other test
        // doesn't run here, so the counters must match exactly.
        prop_assert_eq!(cache.stats().accesses(), ops.len() as u64);
    }

    /// A victim reported by a fill was resident before and is absent after,
    /// and the filled line is resident.
    #[test]
    fn eviction_consistency(
        mut cache in small_cache(),
        ops in prop::collection::vec((0u64..64, any::<bool>()), 1..200),
    ) {
        for &(l, w) in &ops {
            let line = LineAddr::new(l);
            let was_resident = cache.contains(line);
            let out = cache.access(line, w);
            prop_assert_eq!(out.hit, was_resident);
            prop_assert!(cache.contains(line));
            if let Some(victim) = out.evicted {
                prop_assert!(!cache.contains(victim.line));
                prop_assert_ne!(victim.line, line);
            }
        }
    }

    /// Dirty data is never silently dropped: every line written is either
    /// still resident or was reported via a dirty eviction.
    #[test]
    fn no_silent_dirty_drops(
        mut cache in small_cache(),
        ops in prop::collection::vec((0u64..64, any::<bool>()), 1..200),
    ) {
        let mut dirty: cameo_types::DetHashSet<u64> = Default::default();
        for &(l, w) in &ops {
            let line = LineAddr::new(l);
            let out = cache.access(line, w);
            if w {
                dirty.insert(l);
            }
            if let Some(victim) = out.evicted {
                if dirty.remove(&victim.line.raw()) {
                    prop_assert!(victim.dirty, "dirty line dropped clean");
                }
            }
        }
        for l in dirty {
            prop_assert!(cache.contains(LineAddr::new(l)), "dirty line {l} vanished");
        }
    }

    /// The Alloy directory holds at most one line per set, and `probe`
    /// agrees with fill/evict history.
    #[test]
    fn alloy_direct_mapping(
        sets in 1u64..64,
        lines in prop::collection::vec(0u64..1024, 1..200),
    ) {
        let mut dir = AlloyDirectory::new(sets, 1024);
        let mut model: Vec<Option<u64>> = vec![None; sets as usize];
        for &l in &lines {
            let line = LineAddr::new(l);
            let set = dir.set_of(line) as usize;
            prop_assert_eq!(dir.probe(line), model[set] == Some(l));
            dir.fill(line, false);
            model[set] = Some(l);
        }
        prop_assert_eq!(dir.occupancy(), model.iter().flatten().count());
    }
}
