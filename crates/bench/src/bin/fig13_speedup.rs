//! Figure 13: the headline comparison — Cache, TLM-Static, TLM-Dynamic,
//! CAMEO (Co-Located LLT + LLP) and DoubleUse over the baseline.

use cameo_bench::{outln, print_header, Cli, SpeedupGrid};
use cameo_sim::experiments::OrgKind;

fn main() {
    let cli = Cli::parse();
    print_header("Figure 13 — headline speedups", &cli);
    let kinds = [
        OrgKind::AlloyCache,
        OrgKind::TlmStatic,
        OrgKind::TlmDynamic,
        OrgKind::cameo_default(),
        OrgKind::DoubleUse,
    ];
    let grid = SpeedupGrid::collect(&kinds, &cli);
    outln!("Figure 13 — speedup with stacked memory\n");
    cli.emit(&grid.speedup_table());
    if !cli.csv {
        outln!("\nGmean ALL:\n{}", grid.gmean_chart());
    }
    cli.emit_trace("fig13_speedup", &grid.report);
    outln!(
        "\npaper gmeans (ALL): Cache 1.50x, TLM-Static 1.33x, TLM-Dynamic 1.50x, \
         CAMEO 1.78x, DoubleUse 1.82x"
    );
}
