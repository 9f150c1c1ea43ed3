//! Property-based tests for CAMEO's core data structures and controller.

use cameo::congruence::{div31, CongruenceMap};
use cameo::llp::PredictionCase;
use cameo::llt::{LineLocationTable, LltEntry, Slot};
use cameo::{Cameo, CameoConfig, LltDesign, PredictorKind};
use cameo_types::{Access, ByteSize, CoreId, Cycle, LineAddr, MemKind};
use proptest::prelude::*;

proptest! {
    /// Any sequence of promotions keeps every entry a permutation — the
    /// exactly-one-copy invariant.
    #[test]
    fn llt_entries_stay_permutations(
        ratio in 2u8..=8,
        ways in prop::collection::vec(0u8..8, 1..200),
    ) {
        let mut e = LltEntry::identity(ratio);
        for w in ways {
            let w = w % ratio;
            e.promote(w);
            prop_assert!(e.is_permutation());
            prop_assert_eq!(e.slot_of(w), Slot::STACKED);
        }
    }

    /// The table locate/promote pair is consistent: after promoting, the
    /// promoted line is stacked and the displaced line sits at the exact
    /// slot the promoted line vacated.
    #[test]
    fn llt_swap_conservation(
        lines in prop::collection::vec(0u64..4096, 1..300),
    ) {
        let map = CongruenceMap::new(1024, 4);
        let mut llt = LineLocationTable::new(map);
        for l in lines {
            let line = LineAddr::new(l);
            let before = llt.locate(line);
            match llt.promote(line) {
                None => prop_assert!(before.is_stacked()),
                Some((displaced, slot)) => {
                    prop_assert_eq!(slot, before);
                    prop_assert_eq!(llt.locate(line), Slot::STACKED);
                    prop_assert_eq!(llt.locate(displaced), before);
                }
            }
        }
    }

    /// Every visible line remains reachable (locate never panics and every
    /// group's ways occupy distinct slots) after arbitrary swap traffic.
    #[test]
    fn all_lines_reachable_after_swaps(
        lines in prop::collection::vec(0u64..1024, 1..200),
    ) {
        let map = CongruenceMap::new(256, 4);
        let mut llt = LineLocationTable::new(map);
        for l in &lines {
            llt.promote(LineAddr::new(*l));
        }
        for g in 0..map.groups() {
            let mut seen = std::collections::HashSet::new();
            for w in 0..map.ratio() {
                let slot = llt.locate(map.line_of(g, w));
                prop_assert!(seen.insert(slot.raw()));
            }
        }
    }

    /// div31 equals integer division for arbitrary inputs.
    #[test]
    fn div31_arbitrary(x in any::<u64>()) {
        prop_assert_eq!(div31(x), x / 31);
    }

    /// Congruence (group, way) decomposition round-trips for arbitrary
    /// geometries across the full ratio range.
    #[test]
    fn congruence_round_trip(
        groups in 1u64..=4096,
        ratio in 2u8..=8,
        raw in any::<u64>(),
    ) {
        let map = CongruenceMap::new(groups, ratio);
        let line = LineAddr::new(raw % map.total_lines());
        let (g, w) = map.split(line);
        prop_assert!(g < groups);
        prop_assert!(w < ratio);
        prop_assert_eq!(map.line_of(g, w), line);
    }

    /// Controller end-to-end: completions are monotone w.r.t. issue time,
    /// service counters partition reads, and the most recently *read* line
    /// of each group is stacked-resident.
    #[test]
    fn controller_invariants(
        design in prop_oneof![
            Just(LltDesign::Ideal),
            Just(LltDesign::Embedded),
            Just(LltDesign::CoLocated),
        ],
        predictor in prop_oneof![
            Just(PredictorKind::SerialAccess),
            Just(PredictorKind::Llp),
            Just(PredictorKind::Perfect),
        ],
        ops in prop::collection::vec((0u64..4096, any::<bool>(), 0u64..64), 1..200),
    ) {
        let mut cameo = Cameo::new(CameoConfig {
            stacked: ByteSize::from_kib(64),
            off_chip: ByteSize::from_kib(192),
            llt: design,
            predictor,
            cores: 2,
            llp_entries: 64,
        });
        let mut now = Cycle::ZERO;
        let mut reads = 0u64;
        let mut last_read_of_group: std::collections::HashMap<u64, u64> = Default::default();
        for (line, is_write, pc) in ops {
            let access = if is_write {
                Access::write(CoreId((line % 2) as u16), LineAddr::new(line), pc * 4)
            } else {
                reads += 1;
                last_read_of_group.insert(line % 1024, line);
                Access::read(CoreId((line % 2) as u16), LineAddr::new(line), pc * 4)
            };
            let r = cameo.access(now, &access);
            prop_assert!(r.completion > now);
            now += Cycle::new(1);
        }
        let s = cameo.stats();
        prop_assert_eq!(s.demand_reads, reads);
        prop_assert_eq!(s.serviced_stacked + s.serviced_off_chip, reads);
        // Reading any most-recently-read line again must hit stacked DRAM.
        for (_, line) in last_read_of_group {
            let r = cameo.access(now, &Access::read(CoreId(0), LineAddr::new(line), 0));
            prop_assert_eq!(r.serviced_by, MemKind::Stacked, "line {} not resident", line);
        }
    }

    /// With a perfect predictor, accuracy is exactly 1 and no bandwidth is
    /// wasted.
    #[test]
    fn perfect_prediction_never_wastes(
        lines in prop::collection::vec(0u64..4096, 1..200),
    ) {
        let mut cameo = Cameo::new(CameoConfig {
            stacked: ByteSize::from_kib(64),
            off_chip: ByteSize::from_kib(192),
            llt: LltDesign::CoLocated,
            predictor: PredictorKind::Perfect,
            cores: 1,
            llp_entries: 64,
        });
        let mut now = Cycle::ZERO;
        for l in &lines {
            let r = cameo.access(now, &Access::read(CoreId(0), LineAddr::new(*l), 0x40));
            now = r.completion;
        }
        prop_assert_eq!(cameo.stats().cases.accuracy(), Some(1.0));
        prop_assert_eq!(cameo.stats().wasted_off_chip_fetches, 0);
    }

    /// SAM never wastes bandwidth either (it never launches parallel
    /// fetches); its only penalty is latency (case 3).
    #[test]
    fn sam_never_fetches_speculatively(
        lines in prop::collection::vec(0u64..4096, 1..200),
    ) {
        let mut cameo = Cameo::new(CameoConfig {
            stacked: ByteSize::from_kib(64),
            off_chip: ByteSize::from_kib(192),
            llt: LltDesign::CoLocated,
            predictor: PredictorKind::SerialAccess,
            cores: 1,
            llp_entries: 64,
        });
        let mut now = Cycle::ZERO;
        for l in &lines {
            let r = cameo.access(now, &Access::read(CoreId(0), LineAddr::new(*l), 0x40));
            now = r.completion;
        }
        prop_assert_eq!(cameo.stats().wasted_off_chip_fetches, 0);
        let s = cameo.stats();
        prop_assert_eq!(
            s.cases.count(PredictionCase::OffChipPredictedStacked),
            s.serviced_off_chip
        );
    }
}

/// With `deep-audit` enabled, the controller re-verifies its invariants on
/// *every* access (not just the sampled schedule), so arbitrary traffic
/// that would corrupt the LLT, the congruence mapping, or the counters
/// panics inside the run rather than slipping through.
#[cfg(feature = "deep-audit")]
mod deep_audit {
    use super::*;
    use cameo::audit::InvariantAuditor;

    proptest! {
        /// Arbitrary mixed traffic through every LLT design keeps every
        /// audited invariant intact, both during the run (per-access audit)
        /// and at the end (explicit final audit).
        #[test]
        fn controller_survives_unconditional_audits(
            design in prop_oneof![
                Just(LltDesign::Ideal),
                Just(LltDesign::Sram),
                Just(LltDesign::Embedded),
                Just(LltDesign::CoLocated),
            ],
            ops in prop::collection::vec((0u64..4096, any::<bool>(), 0u64..64), 1..150),
        ) {
            let mut cameo = Cameo::new(CameoConfig {
                stacked: ByteSize::from_kib(64),
                off_chip: ByteSize::from_kib(192),
                llt: design,
                predictor: PredictorKind::Llp,
                cores: 2,
                llp_entries: 64,
            });
            cameo.set_auditor(InvariantAuditor::always());
            let mut now = Cycle::ZERO;
            for (line, is_write, pc) in ops {
                let core = CoreId((line % 2) as u16);
                let access = if is_write {
                    Access::write(core, LineAddr::new(line), pc * 4)
                } else {
                    Access::read(core, LineAddr::new(line), pc * 4)
                };
                cameo.access(now, &access);
                now += Cycle::new(1);
            }
            prop_assert!(cameo.audit_now().is_ok());
        }

        /// Resetting the statistics mid-run rebaselines the swap counter,
        /// so the swaps-bounded-by-off-chip-reads invariant keeps holding
        /// over the post-reset window.
        #[test]
        fn audits_survive_stats_reset(
            warm in prop::collection::vec(0u64..4096, 1..100),
            measured in prop::collection::vec(0u64..4096, 1..100),
        ) {
            let mut cameo = Cameo::new(CameoConfig {
                stacked: ByteSize::from_kib(64),
                off_chip: ByteSize::from_kib(192),
                llt: LltDesign::CoLocated,
                predictor: PredictorKind::SerialAccess,
                cores: 1,
                llp_entries: 64,
            });
            cameo.set_auditor(InvariantAuditor::always());
            let mut now = Cycle::ZERO;
            for l in warm {
                cameo.access(now, &Access::read(CoreId(0), LineAddr::new(l), 0x40));
                now += Cycle::new(1);
            }
            cameo.reset_stats();
            for l in measured {
                cameo.access(now, &Access::read(CoreId(0), LineAddr::new(l), 0x40));
                now += Cycle::new(1);
            }
            prop_assert!(cameo.audit_now().is_ok());
        }
    }
}
