//! Figure 12: speedup of CAMEO (Co-Located LLT) with no prediction (SAM),
//! the Line Location Predictor, and a perfect predictor.

use cameo::{LltDesign, PredictorKind};
use cameo_bench::{outln, print_header, Cli, SpeedupGrid};
use cameo_sim::experiments::OrgKind;

fn main() {
    let cli = Cli::parse();
    print_header("Figure 12 — location prediction", &cli);
    let kinds = [
        OrgKind::Cameo {
            llt: LltDesign::CoLocated,
            predictor: PredictorKind::SerialAccess,
        },
        OrgKind::Cameo {
            llt: LltDesign::CoLocated,
            predictor: PredictorKind::Llp,
        },
        OrgKind::Cameo {
            llt: LltDesign::CoLocated,
            predictor: PredictorKind::Perfect,
        },
    ];
    let grid = SpeedupGrid::collect(&kinds, &cli);
    outln!("Figure 12 — speedup with no / LLP / perfect location prediction\n");
    cli.emit(&grid.speedup_table());
    if !cli.csv {
        outln!("\nGmean ALL:\n{}", grid.gmean_chart());
    }
    cli.emit_trace("fig12_llp", &grid.report);
    outln!("\npaper gmeans (ALL): SAM 1.74x, LLP 1.78x, Perfect 1.80x");
}
