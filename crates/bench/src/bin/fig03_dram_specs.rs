//! Figure 3: DRAM capacity and bandwidth by technology (datasheet data).

use cameo_bench::{outln, Cli};
use cameo_memsim::specs::{stacked_bandwidth_advantage, DRAM_SPECS};
use cameo_sim::report::Table;

fn main() {
    let cli = Cli::parse();
    let mut table = Table::new(vec![
        "technology",
        "class",
        "capacity (GB)",
        "bandwidth (GB/s)",
    ]);
    for s in DRAM_SPECS {
        table.row(vec![
            s.name.to_owned(),
            if s.stacked { "stacked" } else { "commodity" }.to_owned(),
            format!("{:.1}", s.capacity_gb),
            format!("{:.1}", s.bandwidth_gbs),
        ]);
    }
    outln!("Figure 3 — DRAM capacity and bandwidth (log-scale axes in the paper)\n");
    cli.emit(&table);
    outln!(
        "\nbest stacked vs best commodity bandwidth: {:.1}x (paper: \"almost an order of magnitude\")",
        stacked_bandwidth_advantage()
    );
}
