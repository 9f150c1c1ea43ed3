//! Figure 8: access-latency comparison of the LLT designs, in the paper's
//! abstract units (stacked = 1, off-chip = 2) and in measured CPU cycles
//! from the cycle-level controller.

use cameo::latency_model::{latency_units, LatencyDesign};
use cameo::{Cameo, CameoConfig, LltDesign, PredictorKind};
use cameo_bench::{outln, Cli};
use cameo_sim::report::Table;
use cameo_types::{Access, ByteSize, CoreId, Cycle, LineAddr};

/// Measures the isolated-request latency of one (design, predictor) pair
/// for a stacked-resident line (H) and an off-chip line (M).
fn measured(llt: LltDesign, predictor: PredictorKind) -> (u64, u64) {
    let mk = || {
        Cameo::new(CameoConfig {
            stacked: ByteSize::from_mib(1),
            off_chip: ByteSize::from_mib(3),
            llt,
            predictor,
            cores: 1,
            llp_entries: 256,
        })
    };
    // H: way-0 line (identity-mapped to stacked).
    let mut h = mk();
    let hit = h
        .access(
            Cycle::ZERO,
            &Access::read(CoreId(0), LineAddr::new(5), 0x40),
        )
        .completion;
    // M: way-1 line (identity-mapped off-chip). For the Perfect predictor
    // this exercises the parallel-fetch path.
    let mut m = mk();
    let miss = m
        .access(
            Cycle::ZERO,
            &Access::read(CoreId(0), LineAddr::new(5 + 16384), 0x40),
        )
        .completion;
    (hit.raw(), miss.raw())
}

fn main() {
    let cli = Cli::parse();
    let mut table = Table::new(vec![
        "design",
        "H (units)",
        "M (units)",
        "H (cycles)",
        "M (cycles)",
    ]);
    let rows: [(LatencyDesign, Option<(LltDesign, PredictorKind)>); 5] = [
        (LatencyDesign::Baseline, None),
        (
            LatencyDesign::IdealLlt,
            Some((LltDesign::Ideal, PredictorKind::SerialAccess)),
        ),
        (
            LatencyDesign::EmbeddedLlt,
            Some((LltDesign::Embedded, PredictorKind::SerialAccess)),
        ),
        (
            LatencyDesign::CoLocatedLlt,
            Some((LltDesign::CoLocated, PredictorKind::SerialAccess)),
        ),
        (
            LatencyDesign::CoLocatedPredicted,
            Some((LltDesign::CoLocated, PredictorKind::Perfect)),
        ),
    ];
    for (design, exec) in rows {
        let (hc, mc) = match exec {
            Some((llt, pred)) => {
                let (h, m) = measured(llt, pred);
                (format!("{h}"), format!("{m}"))
            }
            None => {
                // Baseline: always off-chip; H cannot arise.
                let mut d = cameo_memsim::Dram::new(cameo_memsim::DramConfig::off_chip(
                    ByteSize::from_mib(3),
                ));
                let m = d.read_line(Cycle::ZERO, 5).raw();
                ("-".to_owned(), format!("{m}"))
            }
        };
        table.row(vec![
            design.label().to_owned(),
            if design == LatencyDesign::Baseline {
                "-".to_owned()
            } else {
                latency_units(design, true).to_string()
            },
            latency_units(design, false).to_string(),
            hc,
            mc,
        ]);
    }
    outln!("Figure 8 — access latency of LLT designs (single request in isolation)\n");
    cli.emit(&table);
    outln!(
        "\nH = line resident in stacked DRAM, M = line resident off-chip.\n\
         Units use the paper's abstraction (stacked access = 1, off-chip = 2);\n\
         cycles come from the 9-9-9-36 bank/bus model."
    );
}
