//! Figure 15: optimized page placement for TLM — TLM-Dynamic, TLM-Freq and
//! the oracular TLM-Oracle versus CAMEO.

use cameo_bench::{outln, print_header, Cli, SpeedupGrid};
use cameo_sim::experiments::OrgKind;

fn main() {
    let cli = Cli::parse();
    print_header("Figure 15 — optimized TLM placement", &cli);
    let kinds = [
        OrgKind::TlmDynamic,
        OrgKind::TlmFreq,
        OrgKind::TlmOracle,
        OrgKind::cameo_default(),
    ];
    let grid = SpeedupGrid::collect(&kinds, &cli);
    outln!("Figure 15 — speedup from optimized page placement in TLM\n");
    cli.emit(&grid.speedup_table());
    if !cli.csv {
        outln!("\nGmean ALL:\n{}", grid.gmean_chart());
    }
    cli.emit_trace("fig15_placement", &grid.report);
    outln!(
        "\npaper gmeans (ALL): TLM-Freq 1.61x, CAMEO 1.78x (CAMEO wins without tracking support)"
    );
}
