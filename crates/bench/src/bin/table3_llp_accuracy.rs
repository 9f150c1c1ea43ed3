//! Table III: accuracy taxonomy of the Line Location Predictor — the five
//! prediction cases for SAM, LLP and a perfect predictor.

use cameo::llp::PredictionCase;
use cameo::PredictionCaseCounts;
use cameo::{LltDesign, PredictorKind};
use cameo_bench::{print_header, Cli, SpeedupGrid};
use cameo_sim::experiments::OrgKind;
use cameo_sim::report::Table;

/// The prediction cases of grid column `col`, summed over the benchmarks.
fn aggregate(grid: &SpeedupGrid, col: usize) -> PredictionCaseCounts {
    let mut total = PredictionCaseCounts::default();
    for bench in &grid.order {
        if let Some(cases) = grid.runs[bench.name][col].cases {
            total.merge(&cases);
        }
    }
    total
}

fn pct(counts: &PredictionCaseCounts, case: PredictionCase) -> String {
    match counts.fraction(case) {
        Some(f) => format!("{:.1}", f * 100.0),
        None => "-".to_owned(),
    }
}

fn main() {
    let cli = Cli::parse();
    print_header("Table III — LLP accuracy", &cli);
    let kinds = [
        PredictorKind::SerialAccess,
        PredictorKind::Llp,
        PredictorKind::Perfect,
    ]
    .map(|predictor| OrgKind::Cameo {
        llt: LltDesign::CoLocated,
        predictor,
    });
    let grid = SpeedupGrid::collect(&kinds, &cli);
    let [sam, llp, perfect] = [0, 1, 2].map(|col| aggregate(&grid, col));

    let mut table = Table::new(vec!["serviced by", "prediction", "SAM", "LLP", "Perfect"]);
    use PredictionCase::*;
    let rows = [
        ("Stacked", "Stacked", StackedPredictedStacked),
        ("Stacked", "Off-chip", StackedPredictedOffChip),
        ("Off-chip", "Stacked", OffChipPredictedStacked),
        ("Off-chip", "Off-chip (OK)", OffChipPredictedCorrect),
        ("Off-chip", "Off-chip (Wrong)", OffChipPredictedWrong),
    ];
    for (serviced, prediction, case) in rows {
        table.row(vec![
            serviced.to_owned(),
            prediction.to_owned(),
            pct(&sam, case),
            pct(&llp, case),
            pct(&perfect, case),
        ]);
    }
    let acc = |c: &PredictionCaseCounts| {
        c.accuracy()
            .map_or("-".to_owned(), |a| format!("{:.1}", a * 100.0))
    };
    table.row(vec![
        "Overall Accuracy".to_owned(),
        String::new(),
        acc(&sam),
        acc(&llp),
        acc(&perfect),
    ]);
    println!("Table III — accuracy of the Line Location Predictor (%)\n");
    cli.emit(&table);
    cli.emit_trace("table3_llp_accuracy", &grid.report);
    println!("\npaper: SAM 70.3 / LLP 91.7 / Perfect 100 overall accuracy");
}
