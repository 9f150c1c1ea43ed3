//! Extension experiment: DRAM-cache design comparison — Loh-Hill
//! (set-associative, tags-in-row, MissMap) vs. Alloy (direct-mapped TAD)
//! vs. CAMEO.
//!
//! The paper adopts Alloy as its cache baseline citing its latency
//! advantage over prior tags-in-DRAM designs; this experiment replays that
//! comparison inside our substrate: LH pays tag-serialization on every hit
//! but never wastes a probe on misses and resists conflicts with 29 ways;
//! Alloy is fastest on hits but conflict-prone; CAMEO adds the capacity.

use cameo_bench::{outln, print_header, Cli, SpeedupGrid};
use cameo_sim::experiments::OrgKind;

fn main() {
    let cli = Cli::parse();
    print_header("Extension — DRAM cache designs", &cli);
    let kinds = [
        OrgKind::LhCache,
        OrgKind::AlloyCache,
        OrgKind::cameo_default(),
    ];
    let grid = SpeedupGrid::collect(&kinds, &cli);
    outln!("DRAM cache designs — speedup over baseline\n");
    cli.emit(&grid.speedup_table());
    if !cli.csv {
        outln!("\nGmean ALL:\n{}", grid.gmean_chart());
    }
    cli.emit_trace("ext_dram_caches", &grid.report);
    outln!(
        "Alloy's MICRO-2012 claim — a direct-mapped TAD cache beats the\n\
         set-associative tags-in-row design on latency — should reproduce\n\
         on the latency-limited rows; CAMEO adds the capacity wins on top."
    );
}
