//! Diagnostic dump: per-benchmark, per-organization service rates, CPI,
//! fault rates and bandwidth — the calibration instrument.

use cameo_bench::{print_header, Cli, SpeedupGrid};
use cameo_sim::experiments::OrgKind;
use cameo_sim::report::Table;

fn main() {
    let cli = Cli::parse();
    print_header("diagnostics", &cli);
    let kinds = [
        OrgKind::Baseline,
        OrgKind::AlloyCache,
        OrgKind::TlmStatic,
        OrgKind::TlmDynamic,
        OrgKind::cameo_default(),
        OrgKind::DoubleUse,
    ];
    let grid = SpeedupGrid::collect(&kinds, &cli);
    let mut table = Table::new(vec![
        "bench",
        "org",
        "CPI",
        "speedup",
        "reads",
        "stacked%",
        "avgLat",
        "faults",
        "f/Kread",
        "stackedMB",
        "offMB",
        "storMB",
        "acc%",
    ]);
    for bench in &grid.order {
        let base = &grid.baselines[bench.name];
        for (kind, s) in kinds.iter().zip(&grid.runs[bench.name]) {
            table.row(vec![
                bench.name.to_owned(),
                kind.label().to_owned(),
                format!("{:.2}", s.cpi()),
                format!("{:.2}x", s.speedup_over(base)),
                s.demand_reads.to_string(),
                format!("{:.0}", s.stacked_service_rate().unwrap_or(0.0) * 100.0),
                format!("{:.0}", s.avg_read_latency().unwrap_or(0.0)),
                s.faults.to_string(),
                format!(
                    "{:.1}",
                    s.faults as f64 * 1000.0 / s.demand_reads.max(1) as f64
                ),
                format!("{:.1}", s.bandwidth.stacked_bytes as f64 / 1e6),
                format!("{:.1}", s.bandwidth.off_chip_bytes as f64 / 1e6),
                format!("{:.1}", s.bandwidth.storage_bytes as f64 / 1e6),
                s.cases
                    .and_then(|c| c.accuracy())
                    .map_or("-".into(), |a| format!("{:.0}", a * 100.0)),
            ]);
        }
    }
    cli.emit(&table);
    cli.emit_trace("diag", &grid.report);
}
