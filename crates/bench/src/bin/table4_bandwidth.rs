//! Table IV: bandwidth usage in memory and storage, normalized to the
//! baseline, averaged per workload category.

use cameo_bench::{outln, print_header, Cli, SpeedupGrid};
use cameo_sim::experiments::OrgKind;
use cameo_sim::report::{ratio, Table};
use cameo_workloads::Category;

fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

struct CategoryAverages {
    stacked: Option<f64>,
    off_chip: Option<f64>,
    storage: Option<f64>,
}

/// Bandwidth of grid column `col`, normalized to the baseline and
/// averaged over the benchmarks of `category`.
fn averages(grid: &SpeedupGrid, col: usize, category: Category) -> CategoryAverages {
    let mut stacked = Vec::new();
    let mut off = Vec::new();
    let mut storage = Vec::new();
    for bench in grid.order.iter().filter(|b| b.category == category) {
        let run = &grid.runs[bench.name][col];
        let n = run
            .bandwidth
            .normalized_to(&grid.baselines[bench.name].bandwidth);
        if let Some(v) = n.stacked {
            stacked.push(v);
        }
        if let Some(v) = n.off_chip {
            off.push(v);
        }
        if let Some(v) = n.storage {
            storage.push(v);
        }
    }
    CategoryAverages {
        stacked: mean(&stacked),
        off_chip: mean(&off),
        storage: mean(&storage),
    }
}

fn main() {
    let cli = Cli::parse();
    print_header("Table IV — bandwidth usage", &cli);
    let kinds = [
        OrgKind::AlloyCache,
        OrgKind::TlmStatic,
        OrgKind::TlmDynamic,
        OrgKind::cameo_default(),
    ];
    let grid = SpeedupGrid::collect(&kinds, &cli);

    let mut table = Table::new(vec![
        "design",
        "Cap:stacked",
        "Cap:off-chip",
        "Cap:storage",
        "Lat:stacked",
        "Lat:off-chip",
    ]);
    table.row(vec![
        "Baseline".to_owned(),
        "n/a".to_owned(),
        "1.00x".to_owned(),
        "1.00x".to_owned(),
        "n/a".to_owned(),
        "1.00x".to_owned(),
    ]);
    for (col, kind) in kinds.iter().enumerate() {
        let cap = averages(&grid, col, Category::CapacityLimited);
        let lat = averages(&grid, col, Category::LatencyLimited);
        table.row(vec![
            kind.label().to_owned(),
            ratio(cap.stacked),
            ratio(cap.off_chip),
            ratio(cap.storage),
            ratio(lat.stacked),
            ratio(lat.off_chip),
        ]);
    }
    outln!(
        "Table IV — bandwidth usage in memory and storage (bytes transferred,\n\
         normalized to baseline; stacked normalized to baseline off-chip)\n"
    );
    cli.emit(&table);
    cli.emit_trace("table4_bandwidth", &grid.report);
    outln!(
        "\npaper: Cache 1.93/0.55/1.00 | TLM-Stat 0.26/0.74/0.78 | \
         TLM-Dyn 2.54/2.19/0.78 | CAMEO 1.89/1.07/0.79 (Capacity columns)"
    );
}
