//! Figure 2: motivation — stacked DRAM as Cache, TLM-Static, TLM-Dynamic,
//! and the idealistic DoubleUse, relative to the no-stacked baseline.

use cameo_bench::{outln, print_header, Cli, SpeedupGrid};
use cameo_sim::experiments::OrgKind;

fn main() {
    let cli = Cli::parse();
    print_header("Figure 2 — motivation", &cli);
    let kinds = [
        OrgKind::AlloyCache,
        OrgKind::TlmStatic,
        OrgKind::TlmDynamic,
        OrgKind::DoubleUse,
    ];
    let grid = SpeedupGrid::collect(&kinds, &cli);
    outln!("Figure 2 — speedup over baseline (stacked DRAM = 1/4 of total DRAM)\n");
    cli.emit(&grid.speedup_table());
    if !cli.csv {
        outln!("\nGmean ALL:\n{}", grid.gmean_chart());
    }
    cli.emit_trace("fig02_motivation", &grid.report);
    outln!(
        "\npaper gmeans (ALL): Cache 1.50x, TLM-Static 1.33x, TLM-Dynamic 1.50x, DoubleUse 1.82x"
    );
}
