//! Extension experiment: the full design-comparison matrix — competing
//! memory organizations crossed with device models.
//!
//! The paper fixes the devices (flat Table I DRAMs) and varies the
//! organization; this experiment varies both axes. Organizations: CAMEO,
//! the Alloy cache, dynamic two-level memory, and the MemCache hybrid
//! (stacked die statically split into an OS-visible memory region and a
//! hardware cache region) at 25/50/75% memory splits. Devices: flat, and
//! a tiered-latency (TL-DRAM) stacked die with fast near segments. The
//! output ranks all twelve columns by geometric-mean speedup over the
//! off-chip baseline — which design wins, and whether tiering the
//! stacked die reorders the podium.

use cameo_bench::designs::{self, designs};
use cameo_bench::{print_header, Cli, SpeedupGrid};

fn main() {
    let cli = Cli::parse();
    print_header("Extension — design comparison (org x device)", &cli);
    let grid = SpeedupGrid::collect(&designs(), &cli);
    println!("Design matrix — speedup over flat off-chip baseline\n");
    cli.emit(&designs::speedup_table(&grid));
    println!("\nRanked by Gmean ALL\n");
    cli.emit(&designs::ranking_table(&grid));
    println!("\nMemCache split preference (measured vs Table II prediction)\n");
    cli.emit(&designs::split_preference_table(&grid));
    cli.emit_trace("ext_designs", &grid.report);
    println!(
        "MemCache trades cache capacity for OS-visible memory: large\n\
         splits help capacity-limited rows, small splits the latency-\n\
         limited ones. TL-DRAM tiers only 1/16 of each bank's rows, so\n\
         without hot-page promotion it tracks the flat die; whether\n\
         either axis reorders the podium is what the tables answer."
    );
}
