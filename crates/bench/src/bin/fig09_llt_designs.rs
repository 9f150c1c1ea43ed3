//! Figure 9: speedup of the three LLT designs (Ideal, Embedded,
//! Co-Located), all without location prediction (serial access).

use cameo::{LltDesign, PredictorKind};
use cameo_bench::{outln, print_header, Cli, SpeedupGrid};
use cameo_sim::experiments::OrgKind;

fn main() {
    let cli = Cli::parse();
    print_header("Figure 9 — LLT designs", &cli);
    let kinds = [
        OrgKind::Cameo {
            llt: LltDesign::Embedded,
            predictor: PredictorKind::SerialAccess,
        },
        // The paper's Figure 6(a) SRAM strawman, for reference (it is
        // impractical — the table would displace the entire L3).
        OrgKind::Cameo {
            llt: LltDesign::Sram,
            predictor: PredictorKind::SerialAccess,
        },
        OrgKind::Cameo {
            llt: LltDesign::CoLocated,
            predictor: PredictorKind::SerialAccess,
        },
        OrgKind::Cameo {
            llt: LltDesign::Ideal,
            predictor: PredictorKind::SerialAccess,
        },
    ];
    let grid = SpeedupGrid::collect(&kinds, &cli);
    outln!("Figure 9 — speedup of CAMEO with different LLT designs\n");
    cli.emit(&grid.speedup_table());
    if !cli.csv {
        outln!("\nGmean ALL:\n{}", grid.gmean_chart());
    }
    cli.emit_trace("fig09_llt_designs", &grid.report);
    outln!("\npaper gmeans (ALL): Embedded-LLT lower, Co-Located 1.74x, Ideal-LLT 1.80x");
}
