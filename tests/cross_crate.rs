//! Cross-crate integration: wiring the CAMEO controller, the OS substrate
//! and the workload generators together by hand (without the runner) and
//! checking the composed invariants.

use cameo_repro::cameo::{Cameo, CameoConfig, LltDesign, PredictorKind};
use cameo_repro::types::{Access, AccessKind, ByteSize, CoreId, Cycle, LineAddr, MemKind};
use cameo_repro::vmem::{Placement, Vmm, VmmConfig};
use cameo_repro::workloads::{require, TraceConfig, TraceGenerator};

/// Drive a CAMEO controller behind a hand-built VMM with a real workload
/// trace; check conservation properties across the stack.
#[test]
fn vmm_plus_cameo_composition() {
    let stacked = ByteSize::from_mib(1);
    let off_chip = ByteSize::from_mib(3);
    let mut cameo = Cameo::new(CameoConfig {
        stacked,
        off_chip,
        llt: LltDesign::CoLocated,
        predictor: PredictorKind::Llp,
        cores: 1,
        llp_entries: 256,
    });
    let mut vmm = Vmm::new(VmmConfig {
        stacked: ByteSize::ZERO,
        off_chip: cameo.visible_capacity(),
        placement: Placement::Random,
        seed: 5,
    });
    let spec = require("sphinx3").expect("suite benchmark");
    let mut generator = TraceGenerator::new(
        spec,
        TraceConfig {
            scale: 512,
            seed: 9,
            core_offset_pages: 0,
        },
    );

    let mut now = Cycle::ZERO;
    let mut reads = 0u64;
    for _ in 0..30_000 {
        let e = generator.next_event();
        let t = vmm.translate(e.line.page(), e.is_write);
        let phys = LineAddr::new(t.phys.line(e.line.offset_in_page()).raw());
        let access = Access {
            core: CoreId(0),
            line: phys,
            pc: e.pc,
            kind: if e.is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        };
        let r = cameo.access(now, &access);
        assert!(r.completion > now);
        now += Cycle::new(e.gap_instructions.max(1));
        if !e.is_write {
            reads += 1;
        }
    }

    let stats = cameo.stats();
    assert_eq!(stats.demand_reads, reads);
    assert_eq!(
        stats.serviced_stacked + stats.serviced_off_chip,
        stats.demand_reads
    );
    // Swaps happened and the predictor learned something.
    assert!(cameo.llt().swaps() > 0);
    assert!(stats.cases.accuracy().unwrap() > 0.5);
    // Byte conservation: every demand read moved at least a line from one
    // of the two devices.
    let moved = cameo.stacked().stats().bytes_total() + cameo.off_chip().stats().bytes_total();
    assert!(moved >= reads * 64);
}

/// The controller's exactly-one-copy invariant survives a real trace: after
/// arbitrary swap traffic every visible line is still locatable and every
/// group's ways occupy distinct slots.
#[test]
fn one_copy_invariant_under_real_traffic() {
    let mut cameo = Cameo::new(CameoConfig {
        stacked: ByteSize::from_kib(256),
        off_chip: ByteSize::from_kib(768),
        llt: LltDesign::Ideal,
        predictor: PredictorKind::SerialAccess,
        cores: 1,
        llp_entries: 64,
    });
    let spec = require("omnetpp").expect("suite benchmark");
    let mut generator = TraceGenerator::new(
        spec,
        TraceConfig {
            scale: 4096,
            seed: 3,
            core_offset_pages: 0,
        },
    );
    let total_lines = ByteSize::from_mib(1).lines();
    let mut now = Cycle::ZERO;
    for _ in 0..20_000 {
        let e = generator.next_event();
        let line = LineAddr::new(e.line.raw() % total_lines);
        let r = cameo.access(now, &Access::read(CoreId(0), line, e.pc));
        now = r.completion;
    }
    let llt = cameo.llt();
    let map = llt.congruence();
    for group in 0..map.groups() {
        let mut seen = cameo_repro::types::DetHashSet::default();
        for way in 0..map.ratio() {
            let slot = llt.entry(group).slot_of(way);
            assert!(seen.insert(slot), "group {group}: duplicate slot {slot}");
        }
    }
}

/// A read that was just serviced off-chip must be stacked-resident on the
/// next access — swapping is visible end-to-end.
#[test]
fn promotion_is_immediate() {
    let mut cameo = Cameo::new(CameoConfig {
        stacked: ByteSize::from_kib(64),
        off_chip: ByteSize::from_kib(192),
        llt: LltDesign::CoLocated,
        predictor: PredictorKind::Perfect,
        cores: 1,
        llp_entries: 64,
    });
    let mut now = Cycle::ZERO;
    for raw in (1024..2048).step_by(97) {
        let line = LineAddr::new(raw);
        let first = cameo.access(now, &Access::read(CoreId(0), line, 0x40));
        assert_eq!(first.serviced_by, MemKind::OffChip);
        let second = cameo.access(first.completion, &Access::read(CoreId(0), line, 0x40));
        assert_eq!(second.serviced_by, MemKind::Stacked);
        now = second.completion;
    }
}
